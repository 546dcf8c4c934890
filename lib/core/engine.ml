open Xr_xml
module Index = Xr_index.Index
module Slca_engine = Xr_slca.Engine
module Meaningful = Xr_slca.Meaningful

type algorithm =
  | Stack_refine
  | Partition
  | Short_list_eager

let algorithm_name = function
  | Stack_refine -> "stack-refine"
  | Partition -> "partition"
  | Short_list_eager -> "sle"

let algorithm_of_name = function
  | "stack-refine" | "stack" -> Some Stack_refine
  | "partition" -> Some Partition
  | "sle" | "short-list-eager" -> Some Short_list_eager
  | _ -> None

type config = {
  k : int;
  algorithm : algorithm;
  slca : Slca_engine.algorithm;
  ranking : Ranking.config;
  dp : Optimal_rq.config;
  search_for : Xr_slca.Search_for.config;
  auto_mine : bool;
  rank_results : bool;
  mine : Ruleset.mine_config;
  thesaurus : Xr_text.Thesaurus.t option;
}

let default_config =
  {
    k = 3;
    algorithm = Partition;
    slca = Slca_engine.Scan_parallel;
    ranking = Ranking.default_config;
    dp = Optimal_rq.default_config;
    search_for = Xr_slca.Search_for.default_config;
    auto_mine = true;
    rank_results = false;
    mine = Ruleset.default_mine_config;
    thesaurus = None;
  }

type run_stats =
  | Stack_stats of Stack_refine.stats
  | Partition_stats of Partition.stats
  | Sle_stats of Sle.stats

type response = {
  result : Result.t;
  rules_used : Rule.t list;
  stats : run_stats;
}

let build_rules config (index : Index.t) rules query =
  let provided = Ruleset.of_rules rules in
  if not config.auto_mine then provided
  else begin
    let thesaurus =
      match config.thesaurus with Some t -> t | None -> Xr_text.Thesaurus.default ()
    in
    let mined = Ruleset.mine ~config:config.mine ~thesaurus index.Index.doc query in
    List.fold_left Ruleset.add mined rules
  end

(* The rule list [refine] would actually consult for [query], fully
   pruned: mined rules (when [auto_mine] is set) merged with [rules],
   restricted to relevant left-hand sides and in-vocabulary right-hand
   sides — exactly the filters {!Refine_common.make} applies. Both
   filters are idempotent and [Ruleset.of_rules]/[to_list] round-trip
   content and order, so feeding the result back through
   [refine ~config:{config with auto_mine = false} ~rules] reproduces
   the auto-mining run byte for byte while skipping the mining pass —
   the contract the plan cache relies on. *)
let compiled_rules ?(config = default_config) ?(rules = []) (index : Index.t) query =
  let ruleset = build_rules config index rules query in
  let nq = List.filter (fun k -> String.length k > 0) (List.map Token.normalize query) in
  let doc = index.Index.doc in
  let in_doc k = Doc.keyword_id doc k <> None in
  List.filter
    (fun (r : Rule.t) -> List.for_all in_doc r.rhs)
    (Ruleset.to_list (Ruleset.relevant ruleset nq))

let setup config rules index query =
  let ruleset = build_rules config index rules query in
  Refine_common.make ~dp_config:config.dp ~search_for:config.search_for index ruleset query

(* Order result lists by XML TF*IDF relevance when configured. *)
let rerank_result config (index : Index.t) result =
  if not config.rank_results then result
  else begin
    let doc = index.Index.doc in
    let rank_for keywords slcas =
      let ids = List.filter_map (Doc.keyword_id doc) keywords in
      List.map fst (Xr_slca.Result_rank.rank index.Index.stats ~query:ids slcas)
    in
    match result with
    | Result.No_result -> result
    | Result.Original slcas -> Result.Original slcas
    | Result.Refined matches ->
      Result.Refined
        (List.map
           (fun (m : Result.rq_match) ->
             { m with Result.slcas = rank_for m.Result.rq.Refined_query.keywords m.Result.slcas })
           matches)
  end

let refine ?(config = default_config) ?(rules = []) index query =
  let c = setup config rules index query in
  let ranking = { config.ranking with search_for = config.search_for } in
  let result, stats =
    match config.algorithm with
    | Stack_refine ->
      let r, s = Stack_refine.run ~ranking c in
      (r, Stack_stats s)
    | Partition ->
      let r, s = Partition.run ~ranking ~slca:config.slca ~k:config.k c in
      (r, Partition_stats s)
    | Short_list_eager ->
      let r, s = Sle.run ~ranking ~slca:config.slca ~k:config.k c in
      (r, Sle_stats s)
  in
  let result =
    match result with
    | Result.Original slcas when config.rank_results ->
      let ids = List.filter_map (Doc.keyword_id index.Index.doc) c.Refine_common.query in
      Result.Original
        (List.map fst (Xr_slca.Result_rank.rank index.Index.stats ~query:ids slcas))
    | other -> rerank_result config index other
  in
  { result; rules_used = Ruleset.to_list c.rules; stats }

let search ?(config = default_config) (index : Index.t) query =
  let doc = index.Index.doc in
  (* Query interpretation — normalization, vocabulary resolution, and
     the meaningfulness statistics — is the [parse] stage of a trace;
     the list scan itself reports as [slca.scan]. *)
  let prep =
    Xr_obs.Tracing.with_span "parse" (fun () ->
        let keywords =
          List.filter (fun k -> String.length k > 0) (List.map Token.normalize query)
          |> List.sort_uniq String.compare
        in
        let rec resolve acc = function
          | [] -> Some (List.rev acc)
          | k :: rest -> (
            match Doc.keyword_id doc k with
            | Some kw -> resolve (kw :: acc) rest
            | None -> None)
        in
        match resolve [] keywords with
        | None -> None
        | Some ids ->
          if
            List.exists
              (fun kw -> Xr_index.Inverted.length index.Index.inverted kw = 0)
              ids
          then None
          else Some (ids, Meaningful.make ~config:config.search_for index.Index.stats ids))
  in
  match prep with
  | None -> []
  | Some (ids, meaningful) ->
    (* [query_ids] keeps packed engines on the index's packed lists;
       list-based ones decode them on every call. *)
    let slcas = Slca_engine.query_ids config.slca index ids in
    let filtered =
      Xr_obs.Tracing.with_span "slca.filter" (fun () -> Meaningful.filter meaningful slcas)
    in
    if Xr_obs.Analyze.active () then begin
      let postings =
        List.fold_left
          (fun acc kw -> acc + Xr_index.Inverted.length index.Index.inverted kw)
          0 ids
      in
      Xr_obs.Analyze.note_stage ~name:"slca.scan" ~input:postings
        ~output:(List.length slcas);
      Xr_obs.Analyze.note_stage ~name:"slca.filter" ~input:(List.length slcas)
        ~output:(List.length filtered)
    end;
    filtered

let needs_refinement ?config index query = search ?config index query = []

type auto_outcome =
  | Matched of Dewey.t list
  | Auto_refined of response
  | Narrowed of Dewey.t list * Specialize.suggestion list

let auto ?(config = default_config) ?(specialize = Specialize.default_config) ?rules index
    query =
  let specialize = { specialize with slca = config.slca; search_for = config.search_for } in
  match search ~config index query with
  | [] -> Auto_refined (refine ~config ?rules index query)
  | results when List.length results > specialize.Specialize.max_results ->
    Narrowed (results, Specialize.suggest ~config:specialize index query)
  | results -> Matched results
