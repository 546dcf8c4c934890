open Xr_xml
open Xr_refine
module Index = Xr_index.Index

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let fig1 = lazy (Index.build (Xr_data.Figure1.doc ()))

let dblp =
  lazy
    (Index.build
       (Xr_data.Dblp.doc ~config:{ Xr_data.Dblp.default_config with publications = 200 } ()))

(* ---- rules ---------------------------------------------------------------- *)

let test_rule_constructors () =
  let r = Rule.merging [ "On"; "LINE" ] "OnLine" in
  check (Alcotest.list Alcotest.string) "normalized lhs" [ "on"; "line" ] r.Rule.lhs;
  check (Alcotest.list Alcotest.string) "normalized rhs" [ "online" ] r.Rule.rhs;
  check Alcotest.int "merge ds = boundaries" 1 r.Rule.ds;
  let r3 = Rule.merging [ "a"; "b"; "c" ] "abc" in
  check Alcotest.int "3-way merge ds" 2 r3.Rule.ds;
  let sp = Rule.spelling "mecin" "machine" in
  check Alcotest.int "spelling ds = edit distance" 3 sp.Rule.ds;
  let sp1 = Rule.spelling "databse" "database" in
  check Alcotest.int "1-edit" 1 sp1.Rule.ds;
  check Alcotest.int "acronym ds" 1 (Rule.acronym_expand "www" [ "world"; "wide"; "web" ]).Rule.ds;
  check Alcotest.int "split ds" 1 (Rule.split "online" [ "on"; "line" ]).Rule.ds;
  check Alcotest.bool "deletion rhs empty" true ((Rule.deletion "x" ~ds:2).Rule.rhs = []);
  (try
     ignore (Rule.make ~op:Rule.Substitution ~ds:0 [ "a" ] [ "b" ]);
     Alcotest.fail "ds 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Rule.make ~op:Rule.Substitution ~ds:1 [] [ "b" ]);
    Alcotest.fail "empty lhs accepted"
  with Invalid_argument _ -> ()

let test_ruleset_index () =
  let rs =
    Ruleset.of_rules
      [
        Rule.merging [ "on"; "line" ] "online";
        Rule.merging [ "data"; "base" ] "database";
        Rule.synonym "article" "inproceedings";
      ]
  in
  check Alcotest.int "size" 3 (Ruleset.size rs);
  check Alcotest.int "ending_with line" 1 (List.length (Ruleset.ending_with rs "line"));
  check Alcotest.int "ending_with base" 1 (List.length (Ruleset.ending_with rs "base"));
  check Alcotest.int "ending_with other" 0 (List.length (Ruleset.ending_with rs "on"));
  (* dedup *)
  let rs2 = Ruleset.add rs (Rule.merging [ "on"; "line" ] "online") in
  check Alcotest.int "add dedups" 3 (Ruleset.size rs2);
  (* relevance: lhs must be a window of the query *)
  let rel = Ruleset.relevant rs [ "on"; "line"; "database" ] in
  check Alcotest.int "only on+line relevant" 1 (Ruleset.size rel);
  let rel2 = Ruleset.relevant rs [ "line"; "on" ] in
  check Alcotest.int "order matters for windows" 0 (Ruleset.size rel2);
  check
    (Alcotest.list Alcotest.string)
    "new keywords" [ "online" ]
    (Ruleset.new_keywords rs [ "on"; "line"; "x" ])

let test_mining_fig1 () =
  let index = Lazy.force fig1 in
  let th = Xr_text.Thesaurus.default () in
  let mined q = Ruleset.to_list (Ruleset.mine ~thesaurus:th index.Index.doc q) in
  (* merging *)
  let rules = mined [ "on"; "line"; "data"; "base" ] in
  check Alcotest.bool "mines on+line->online" true
    (List.exists (fun (r : Rule.t) -> r.Rule.rhs = [ "online" ] && r.Rule.op = Rule.Merging) rules);
  check Alcotest.bool "mines data+base->database" true
    (List.exists (fun (r : Rule.t) -> r.Rule.rhs = [ "database" ]) rules);
  (* split *)
  let rules = mined [ "onlinedatabase" ] in
  check Alcotest.bool "mines split" true
    (List.exists
       (fun (r : Rule.t) -> r.Rule.op = Rule.Split && r.Rule.rhs = [ "online"; "database" ])
       rules);
  (* spelling *)
  let rules = mined [ "databse" ] in
  check Alcotest.bool "mines spelling" true
    (List.exists
       (fun (r : Rule.t) -> r.Rule.op = Rule.Substitution && r.Rule.rhs = [ "database" ])
       rules);
  (* stemming: publication -> publications (tag) *)
  let rules = mined [ "publication" ] in
  check Alcotest.bool "mines stemming" true
    (List.exists (fun (r : Rule.t) -> r.Rule.rhs = [ "publications" ]) rules);
  (* synonym: publication -> article/inproceedings/proceedings *)
  check Alcotest.bool "mines synonyms" true
    (List.exists (fun (r : Rule.t) -> r.Rule.rhs = [ "article" ]) rules);
  (* all mined RHS exist in document *)
  List.iter
    (fun q ->
      List.iter
        (fun (r : Rule.t) ->
          List.iter
            (fun k ->
              if Doc.keyword_id index.Index.doc k = None then
                Alcotest.failf "mined RHS keyword %s not in doc" k)
            r.Rule.rhs)
        (mined q))
    [ [ "on"; "line" ]; [ "databse" ]; [ "publication" ]; [ "onlinedatabase" ] ]

let test_mining_respects_config () =
  let index = Lazy.force fig1 in
  let config = { Ruleset.default_mine_config with enable_spelling = false } in
  let rules = Ruleset.to_list (Ruleset.mine ~config index.Index.doc [ "databse" ]) in
  check Alcotest.bool "spelling disabled" true
    (List.for_all (fun (r : Rule.t) -> r.Rule.rhs <> [ "database" ]) rules)

(* ---- refined query --------------------------------------------------------- *)

let test_refined_query_delta () =
  let r = Rule.merging [ "on"; "line" ] "online" in
  let rq =
    {
      Refined_query.keywords = [ "games"; "online" ];
      dissimilarity = 3;
      edits = [ Refined_query.Applied r; Refined_query.Deleted "junk"; Refined_query.Kept "games" ];
    }
  in
  check (Alcotest.list Alcotest.string) "delta" [ "junk"; "online" ] (Refined_query.delta rq);
  check (Alcotest.list Alcotest.string) "deleted" [ "junk" ] (Refined_query.deleted rq);
  check (Alcotest.list Alcotest.string) "generated" [ "online" ] (Refined_query.generated rq);
  check Alcotest.bool "not original" false (Refined_query.is_original rq);
  check Alcotest.int "operations" 2 (List.length (Refined_query.operations rq))

(* ---- dynamic program -------------------------------------------------------- *)

let available_of_list l k = List.mem k l

let dp ?config ~rules ~available q = Optimal_rq.optimal ?config ~rules ~available q

let test_dp_paper_example3 () =
  (* Example 3: Q={WWW, article, machine, learning},
     T={machine, inproceedings, learning, worldwide web...}; rules r3, r4, r6 *)
  let rules =
    Ruleset.of_rules
      [
        Rule.synonym "article" "inproceedings";
        (* r3 *)
        Rule.merging [ "learn"; "ing" ] "learning";
        (* r4, irrelevant here *)
        Rule.acronym_expand "www" [ "world"; "wide"; "web" ];
        (* r6 *)
      ]
  in
  let t = [ "machine"; "inproceedings"; "learning"; "world"; "wide"; "web" ] in
  match dp ~rules ~available:(available_of_list t) [ "www"; "article"; "machine"; "learning" ] with
  | None -> Alcotest.fail "no RQ found"
  | Some rq ->
    check
      (Alcotest.list Alcotest.string)
      "optimal RQ"
      [ "inproceedings"; "learning"; "machine"; "web"; "wide"; "world" ]
      rq.Refined_query.keywords;
    (* acronym (1) + synonym (1) + keep + keep *)
    check Alcotest.int "dissimilarity" 2 rq.Refined_query.dissimilarity

let test_dp_recurrence_options () =
  let rules = Ruleset.of_rules [ Rule.merging [ "a"; "b" ] "ab" ] in
  (* option 1: keep when available *)
  (match dp ~rules ~available:(available_of_list [ "a"; "b" ]) [ "a"; "b" ] with
  | Some rq ->
    check Alcotest.int "keep both costs 0" 0 rq.Refined_query.dissimilarity;
    check Alcotest.bool "is original" true (Refined_query.is_original rq)
  | None -> Alcotest.fail "expected RQ");
  (* option 3 beats deletion *)
  (match dp ~rules ~available:(available_of_list [ "ab" ]) [ "a"; "b" ] with
  | Some rq ->
    check (Alcotest.list Alcotest.string) "merged" [ "ab" ] rq.Refined_query.keywords;
    check Alcotest.int "merge cost" 1 rq.Refined_query.dissimilarity
  | None -> Alcotest.fail "expected RQ");
  (* option 2: deletion as a last resort *)
  (match dp ~rules ~available:(available_of_list [ "b" ]) [ "a"; "b" ] with
  | Some rq ->
    check (Alcotest.list Alcotest.string) "deleted a" [ "b" ] rq.Refined_query.keywords;
    check Alcotest.int "deletion cost" 2 rq.Refined_query.dissimilarity
  | None -> Alcotest.fail "expected RQ");
  (* everything deleted -> no valid RQ *)
  check Alcotest.bool "empty RQ rejected" true
    (dp ~rules ~available:(fun _ -> false) [ "a"; "b" ] = None)

let test_dp_deletion_cost_config () =
  let rules = Ruleset.empty in
  let config = { Optimal_rq.default_config with deletion_cost = 5 } in
  match dp ~config ~rules ~available:(available_of_list [ "b" ]) [ "a"; "b" ] with
  | Some rq -> check Alcotest.int "configured cost" 5 rq.Refined_query.dissimilarity
  | None -> Alcotest.fail "expected RQ"

let test_dp_rule_requires_rhs_available () =
  let rules = Ruleset.of_rules [ Rule.merging [ "a"; "b" ] "ab" ] in
  match dp ~rules ~available:(available_of_list [ "a" ]) [ "a"; "b" ] with
  | Some rq ->
    (* ab unavailable: keep a, delete b *)
    check (Alcotest.list Alcotest.string) "no rule applied" [ "a" ] rq.Refined_query.keywords;
    check Alcotest.int "cost" 2 rq.Refined_query.dissimilarity
  | None -> Alcotest.fail "expected RQ"

let test_dp_top_k_distinct_sorted () =
  let rules =
    Ruleset.of_rules [ Rule.synonym "x" "y"; Rule.synonym ~ds:2 "x" "z"; Rule.synonym "w" "v" ]
  in
  let rqs =
    Optimal_rq.top_k ~rules ~available:(available_of_list [ "y"; "z"; "v" ]) ~k:10 [ "x"; "w" ]
  in
  (* candidates: {y,v}=2, {z,v}=3, {y}=1+2, {v}... enumerate: each gets
     distinct keyword sets, sorted by cost, no duplicates *)
  let keys = List.map Refined_query.key rqs in
  check Alcotest.int "distinct" (List.length keys) (List.length (List.sort_uniq compare keys));
  let costs = List.map (fun r -> r.Refined_query.dissimilarity) rqs in
  check (Alcotest.list Alcotest.int) "sorted" (List.sort compare costs) costs;
  match rqs with
  | first :: _ ->
    check (Alcotest.list Alcotest.string) "best" [ "v"; "y" ] first.Refined_query.keywords;
    check Alcotest.int "best cost" 2 first.Refined_query.dissimilarity
  | [] -> Alcotest.fail "no candidates"

(* brute-force DP validation: enumerate all edit combinations *)
let brute_force_min_cost ~rules ~available ~deletion_cost q =
  (* state space: position i, accumulated keywords; enumerate recursively *)
  let q = Array.of_list q in
  let n = Array.length q in
  let rules = Ruleset.to_list rules in
  let best = ref None in
  let consider cost kept = if kept <> [] then
    match !best with Some b when b <= cost -> () | _ -> best := Some cost
  in
  let rec go i cost kept =
    if i = n then consider cost kept
    else begin
      let k = q.(i) in
      if available k then go (i + 1) cost (k :: kept);
      go (i + 1) (cost + deletion_cost) kept;
      List.iter
        (fun (r : Rule.t) ->
          let l = List.length r.Rule.lhs in
          if i + l <= n then begin
            let window = Array.to_list (Array.sub q i l) in
            if window = r.Rule.lhs && List.for_all available r.Rule.rhs then
              go (i + l) (cost + r.Rule.ds) (r.Rule.rhs @ kept)
          end)
        rules
    end
  in
  go 0 0 [];
  !best

let gen_dp_case =
  let open QCheck.Gen in
  let word = oneofl [ "a"; "b"; "c"; "d"; "ab"; "cd"; "x"; "y" ] in
  let rule =
    oneofl
      [
        Rule.merging [ "a"; "b" ] "ab";
        Rule.merging [ "c"; "d" ] "cd";
        Rule.split "ab" [ "a"; "b" ];
        Rule.synonym "x" "y";
        Rule.synonym ~ds:2 "a" "c";
        Rule.make ~op:Rule.Substitution ~ds:1 [ "a"; "b" ] [ "x"; "y" ];
      ]
  in
  triple
    (list_size (int_range 1 5) word)
    (list_size (int_bound 4) rule)
    (list_size (int_bound 6) word)

let prop_dp_optimal =
  QCheck.Test.make ~name:"DP matches exhaustive enumeration" ~count:500
    (QCheck.make
       ~print:(fun (q, rules, avail) ->
         Printf.sprintf "q=[%s] rules=[%s] T=[%s]" (String.concat ";" q)
           (String.concat ";" (List.map Rule.to_string rules))
           (String.concat ";" avail))
       gen_dp_case)
    (fun (q, rules, avail) ->
      let rules = Ruleset.of_rules rules in
      let available = available_of_list avail in
      let expected = brute_force_min_cost ~rules ~available ~deletion_cost:2 q in
      let got =
        Option.map
          (fun r -> r.Refined_query.dissimilarity)
          (Optimal_rq.optimal ~rules ~available q)
      in
      got = expected)

(* Lemma 2 (1): the RQ is always a subset of T *)
let prop_dp_subset_of_t =
  QCheck.Test.make ~name:"Lemma 2: RQ keywords come from T" ~count:500
    (QCheck.make gen_dp_case) (fun (q, rules, avail) ->
      let rules = Ruleset.of_rules rules in
      let available = available_of_list avail in
      match Optimal_rq.optimal ~rules ~available q with
      | None -> true
      | Some rq -> List.for_all available rq.Refined_query.keywords)

(* ---- rq list ---------------------------------------------------------------- *)

let mk_rq keywords ds =
  { Refined_query.keywords; dissimilarity = ds; edits = [] }

let test_rq_list () =
  let l = Rq_list.create ~capacity:2 in
  check (Alcotest.option Alcotest.int) "empty max" None (Rq_list.max_dissimilarity l);
  check Alcotest.bool "admit anything when empty" true (Rq_list.would_admit l 100);
  ignore (Rq_list.insert l (mk_rq [ "a" ] 5));
  ignore (Rq_list.insert l (mk_rq [ "b" ] 3));
  check (Alcotest.option Alcotest.int) "full max" (Some 5) (Rq_list.max_dissimilarity l);
  check Alcotest.bool "reject worse" false (Rq_list.insert l (mk_rq [ "c" ] 7));
  check Alcotest.bool "admit better, evict worst" true (Rq_list.insert l (mk_rq [ "d" ] 1));
  check Alcotest.bool "worst evicted" false (Rq_list.mem l (mk_rq [ "a" ] 5));
  check
    (Alcotest.list Alcotest.int)
    "ascending order" [ 1; 3 ]
    (List.map (fun r -> r.Refined_query.dissimilarity) (Rq_list.to_list l));
  (* duplicate keyword set keeps the cheaper cost *)
  ignore (Rq_list.insert l (mk_rq [ "d" ] 2));
  check Alcotest.int "dedup" 2 (Rq_list.length l);
  ignore (Rq_list.insert l (mk_rq [ "b" ] 1));
  check
    (Alcotest.list Alcotest.int)
    "replaced cheaper" [ 1; 1 ]
    (List.map (fun r -> r.Refined_query.dissimilarity) (Rq_list.to_list l))

(* ---- the three algorithms ---------------------------------------------------- *)

let refine_with alg ?(k = 3) index query =
  let config = { Engine.default_config with algorithm = alg; k } in
  (Engine.refine ~config index query).Engine.result

let best_dissim result =
  match result with
  | Result.Refined matches ->
    List.fold_left
      (fun acc (m : Result.rq_match) -> min acc m.Result.rq.Refined_query.dissimilarity)
      max_int matches
    |> fun d -> if d = max_int then None else Some d
  | Result.Original _ | Result.No_result -> None

let test_algorithms_agree_on_optimal_dissim () =
  let index = Lazy.force fig1 in
  let queries =
    [
      [ "on"; "line"; "data"; "base" ];
      [ "database"; "publication" ];
      [ "john"; "xml"; "2003" ];
      [ "onlinedatabase" ];
      [ "databse"; "systems" ];
      [ "xml"; "kyword" ];
    ]
  in
  List.iter
    (fun q ->
      let r_stack = refine_with Engine.Stack_refine index q in
      let r_part = refine_with Engine.Partition index q in
      let r_sle = refine_with Engine.Short_list_eager index q in
      let d1 = best_dissim r_stack and d2 = best_dissim r_part and d3 = best_dissim r_sle in
      if not (d1 = d2 && d2 = d3) then
        Alcotest.failf "optimal dissimilarity disagrees on {%s}: stack=%s partition=%s sle=%s"
          (String.concat "," q)
          (match d1 with Some d -> string_of_int d | None -> "-")
          (match d2 with Some d -> string_of_int d | None -> "-")
          (match d3 with Some d -> string_of_int d | None -> "-"))
    queries

let test_original_query_detected () =
  let index = Lazy.force fig1 in
  (* {xml, 2003} has meaningful SLCAs: no refinement on any algorithm *)
  List.iter
    (fun alg ->
      match refine_with alg index [ "xml"; "2003" ] with
      | Result.Original slcas -> check Alcotest.int (Engine.algorithm_name alg) 2 (List.length slcas)
      | Result.Refined _ | Result.No_result ->
        Alcotest.failf "%s refined a matching query" (Engine.algorithm_name alg))
    Engine.[ Stack_refine; Partition; Short_list_eager ]

let test_no_result_when_hopeless () =
  let index = Lazy.force fig1 in
  List.iter
    (fun alg ->
      match refine_with alg index [ "qqqq"; "wwww" ] with
      | Result.No_result -> ()
      | Result.Original _ | Result.Refined _ ->
        Alcotest.failf "%s fabricated a result" (Engine.algorithm_name alg))
    Engine.[ Stack_refine; Partition; Short_list_eager ]

(* Lemma 2 (3) / Definition 3.4: every returned RQ has >= 1 meaningful SLCA *)
let test_refined_queries_have_results () =
  let index = Lazy.force dblp in
  let rng = Xr_data.Rng.create 5 in
  let th = Xr_text.Thesaurus.default () in
  let pool = Xr_eval.Querylog.pool ~thesaurus:th rng index ~per_kind:2 in
  List.iter
    (fun (c : Xr_eval.Querylog.case) ->
      List.iter
        (fun alg ->
          match refine_with alg index c.Xr_eval.Querylog.corrupted with
          | Result.Refined matches ->
            List.iter
              (fun (m : Result.rq_match) ->
                if m.Result.slcas = [] && alg <> Engine.Partition then
                  Alcotest.failf "%s returned RQ %s with no results"
                    (Engine.algorithm_name alg)
                    (Refined_query.to_string m.Result.rq))
              matches
          | Result.Original _ | Result.No_result -> ())
        Engine.[ Stack_refine; Partition; Short_list_eager ])
    pool

(* Orthogonality (Lemma 3): partition/SLE results independent of SLCA engine *)
let test_orthogonal_to_slca_engine () =
  let index = Lazy.force fig1 in
  let queries = [ [ "on"; "line"; "data"; "base" ]; [ "database"; "publication" ] ] in
  List.iter
    (fun q ->
      let results =
        List.map
          (fun slca ->
            let config = { Engine.default_config with slca; algorithm = Engine.Partition } in
            match (Engine.refine ~config index q).Engine.result with
            | Result.Refined ms ->
              List.map
                (fun (m : Result.rq_match) ->
                  (Refined_query.key m.Result.rq, List.map Dewey.to_string m.Result.slcas))
                ms
            | Result.Original _ | Result.No_result -> [])
          Xr_slca.Engine.all
      in
      match results with
      | first :: rest ->
        List.iter
          (fun r -> if r <> first then Alcotest.fail "SLCA engine changed refinement output")
          rest
      | [] -> ())
    queries

let test_stack_refine_stats () =
  let index = Lazy.force fig1 in
  let config = { Engine.default_config with algorithm = Engine.Stack_refine } in
  let resp = Engine.refine ~config index [ "on"; "line"; "data"; "base" ] in
  match resp.Engine.stats with
  | Engine.Stack_stats s ->
    check Alcotest.bool "pops happened" true (s.Stack_refine.pops > 0);
    check Alcotest.bool "dp ran" true (s.Stack_refine.dp_runs > 0)
  | _ -> Alcotest.fail "wrong stats constructor"

let test_partition_prunes () =
  let index = Lazy.force dblp in
  let config = { Engine.default_config with algorithm = Engine.Partition; k = 1 } in
  let resp = Engine.refine ~config index [ "databse"; "quury"; "optimzation" ] in
  match resp.Engine.stats with
  | Engine.Partition_stats s ->
    check Alcotest.bool "visited some partitions" true (s.Partition.partitions_visited > 0)
  | _ -> Alcotest.fail "wrong stats constructor"

let test_sle_early_stop () =
  let index = Lazy.force dblp in
  let config = { Engine.default_config with algorithm = Engine.Short_list_eager; k = 1 } in
  (* common keyword + a rare misspelled one: SLE should not consume the
     gigantic lists *)
  let resp = Engine.refine ~config index [ "author"; "visualizaton" ] in
  match resp.Engine.stats with
  | Engine.Sle_stats s ->
    check Alcotest.bool "ran" true (s.Sle.dp_runs > 0)
  | _ -> Alcotest.fail "wrong stats constructor"

(* top-k matches are sorted by rank *)
let test_topk_sorted_by_rank () =
  let index = Lazy.force fig1 in
  match refine_with Engine.Partition ~k:4 index [ "on"; "line"; "data"; "base" ] with
  | Result.Refined matches ->
    let ranks =
      List.filter_map (fun (m : Result.rq_match) -> Option.map (fun s -> s.Ranking.rank) m.Result.score) matches
    in
    check
      (Alcotest.list (Alcotest.float 1e-9))
      "descending rank"
      (List.sort (fun a b -> Float.compare b a) ranks)
      ranks
  | _ -> Alcotest.fail "expected refinement"

(* ---- edge cases --------------------------------------------------------------- *)

let test_edge_queries () =
  let index = Lazy.force fig1 in
  (* empty and degenerate queries neither crash nor fabricate *)
  (match (Engine.refine index []).Engine.result with
  | Result.No_result -> ()
  | _ -> Alcotest.fail "empty query fabricated a result");
  (match (Engine.refine index [ "..."; "!!" ]).Engine.result with
  | Result.No_result -> ()
  | _ -> Alcotest.fail "punctuation query fabricated a result");
  check Alcotest.int "search of empty" 0 (List.length (Engine.search index []));
  (* duplicated keywords behave like the set *)
  let a = Engine.search index [ "xml"; "2003" ] in
  let b = Engine.search index [ "xml"; "2003"; "XML"; "xml" ] in
  check Alcotest.bool "duplicates collapse" true (a = b);
  (* a long query stays tractable and sound *)
  let long = [ "xml"; "keyword"; "query"; "john"; "2003"; "vldb"; "twig"; "join"; "games"; "web" ] in
  match (Engine.refine index long).Engine.result with
  | Result.Refined (m :: _) ->
    check Alcotest.bool "long query refined" true (m.Result.slcas <> [])
  | Result.Refined [] | Result.No_result | Result.Original _ -> ()

let test_mixed_case_and_punctuation_normalize () =
  let index = Lazy.force fig1 in
  let a = Engine.search index [ "XML"; "2003" ] in
  let b = Engine.search index [ "xml,"; "(2003)" ] in
  let c = Engine.search index [ "xml"; "2003" ] in
  check Alcotest.bool "case-insensitive" true (a = c);
  check Alcotest.bool "punctuation-insensitive" true (b = c)

let test_refine_single_char_keywords () =
  let index = Lazy.force fig1 in
  (* one-letter junk is deletable without crashing the miner *)
  match (Engine.refine index [ "x"; "xml"; "2003" ]).Engine.result with
  | Result.Refined ({ Result.rq; _ } :: _) ->
    check (Alcotest.list Alcotest.string) "junk deleted" [ "2003"; "xml" ]
      rq.Refined_query.keywords
  | _ -> Alcotest.fail "expected refinement"

(* ---- ranking ----------------------------------------------------------------- *)

let test_ranking_decay_and_variants () =
  let index = Lazy.force fig1 in
  let stats = index.Index.stats in
  let original = [ "on"; "line"; "data"; "base" ] in
  let r = Rule.merging [ "on"; "line" ] "online" in
  let rq1 =
    {
      Refined_query.keywords = [ "database"; "online" ];
      dissimilarity = 2;
      edits = [ Refined_query.Applied r; Refined_query.Applied (Rule.merging [ "data"; "base" ] "database") ];
    }
  in
  let rq_far = { rq1 with dissimilarity = 6 } in
  let s1 = Ranking.score stats ~original rq1 in
  let s2 = Ranking.score stats ~original rq_far in
  check Alcotest.bool "decay lowers similarity" true (s1.Ranking.similarity > s2.Ranking.similarity);
  (* without G4 the two coincide *)
  let cfg = { Ranking.default_config with variant = Ranking.ablate 4 } in
  let s1' = Ranking.score ~config:cfg stats ~original rq1 in
  let s2' = Ranking.score ~config:cfg stats ~original rq_far in
  check (Alcotest.float 1e-9) "no decay without G4" s1'.Ranking.similarity s2'.Ranking.similarity;
  (* alpha/beta weights *)
  let sim_only = { Ranking.default_config with beta = 0. } in
  let s = Ranking.score ~config:sim_only stats ~original rq1 in
  check (Alcotest.float 1e-9) "beta 0 drops dependence" s.Ranking.similarity s.Ranking.rank;
  let dep_only = { Ranking.default_config with alpha = 0. } in
  let s = Ranking.score ~config:dep_only stats ~original rq1 in
  check (Alcotest.float 1e-9) "alpha 0 drops similarity" s.Ranking.dependence s.Ranking.rank

let test_ranking_dependence () =
  let index = Lazy.force fig1 in
  let stats = index.Index.stats in
  let original = [ "xml"; "2003" ] in
  (* xml & 2003 co-occur in inproceedings; xml & games never *)
  let rq_cooccur = mk_rq [ "2003"; "xml" ] 1 in
  let rq_scatter = mk_rq [ "games"; "xml" ] 1 in
  let s1 = Ranking.score stats ~original rq_cooccur in
  let s2 = Ranking.score stats ~original rq_scatter in
  check Alcotest.bool "co-occurring keywords score higher dependence" true
    (s1.Ranking.dependence > s2.Ranking.dependence)

let test_ranking_ablations_exist () =
  List.iter (fun i -> ignore (Ranking.ablate i)) [ 1; 2; 3; 4 ];
  try
    ignore (Ranking.ablate 5);
    Alcotest.fail "ablate 5 accepted"
  with Invalid_argument _ -> ()

(* ---- end-to-end soundness on random documents -------------------------------- *)

(* every returned refined query's results really contain all its keywords *)
let prop_results_contain_keywords =
  QCheck.Test.make ~name:"refined results contain every RQ keyword" ~count:200
    Oracle.arb_refine_case
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let doc = index.Index.doc in
      match (Engine.refine index query).Engine.result with
      | Result.Original _ | Result.No_result -> true
      | Result.Refined matches ->
        List.for_all
          (fun (m : Result.rq_match) ->
            let ids =
              List.filter_map (Doc.keyword_id doc) m.Result.rq.Refined_query.keywords
            in
            List.length ids = List.length m.Result.rq.Refined_query.keywords
            && List.for_all
                 (fun dewey ->
                   let lo, hi = Doc.subtree_node_range doc dewey in
                   List.for_all
                     (fun kw ->
                       let rec found i =
                         i < hi
                         && (List.exists (fun (k, _) -> k = kw) doc.Doc.nodes.(i).Doc.keywords
                            || found (i + 1))
                       in
                       found lo)
                     ids)
                 m.Result.slcas)
          matches)

(* the decision is consistent: Original iff the plain search succeeds *)
let prop_adaptive_decision_consistent =
  QCheck.Test.make ~name:"Original outcome iff plain search non-empty" ~count:200
    Oracle.arb_refine_case
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let plain = Engine.search index query in
      match (Engine.refine index query).Engine.result with
      | Result.Original _ -> plain <> []
      | Result.Refined _ | Result.No_result -> plain = [])

(* ---- rule files ------------------------------------------------------------- *)

let test_rule_file_parse () =
  let content = {txt|
# comment line
on line -> online
mecin -> machine : substitution : 2
www -> world wide web
reallyjunk -> : deletion
database -> databases   # trailing comment
|txt} in
  match Rule_file.parse content with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok rules ->
    check Alcotest.int "rule count" 5 (List.length rules);
    let r0 = List.nth rules 0 in
    check Alcotest.bool "merging inferred" true (r0.Rule.op = Rule.Merging);
    check Alcotest.int "merging ds" 1 r0.Rule.ds;
    let r1 = List.nth rules 1 in
    check Alcotest.bool "explicit op" true (r1.Rule.op = Rule.Substitution);
    check Alcotest.int "explicit ds" 2 r1.Rule.ds;
    let r2 = List.nth rules 2 in
    check Alcotest.bool "split inferred" true (r2.Rule.op = Rule.Split);
    check Alcotest.int "split ds (two boundaries)" 2 r2.Rule.ds;
    let r3 = List.nth rules 3 in
    check Alcotest.bool "deletion" true (r3.Rule.op = Rule.Deletion && r3.Rule.rhs = []);
    check Alcotest.int "deletion ds" 2 r3.Rule.ds;
    let r4 = List.nth rules 4 in
    check Alcotest.bool "substitution inferred" true (r4.Rule.op = Rule.Substitution);
    check Alcotest.int "edit-distance ds" 1 r4.Rule.ds

let test_rule_file_errors () =
  let bad content =
    match Rule_file.parse content with
    | Ok _ -> Alcotest.failf "accepted %S" content
    | Error msg -> check Alcotest.bool "error mentions line" true (String.length msg > 0)
  in
  bad "no arrow here";
  bad " -> x";
  bad "a -> b : frobnicate";
  bad "a -> b : substitution : 0";
  bad "a -> b : deletion"

let test_rule_file_roundtrip () =
  let rules =
    [
      Rule.merging [ "on"; "line" ] "online";
      Rule.spelling "mecin" "machine";
      Rule.deletion "junk" ~ds:3;
      Rule.acronym_expand "www" [ "world"; "wide"; "web" ];
    ]
  in
  let path = Filename.temp_file "xrrules" ".txt" in
  Rule_file.save path rules;
  let rules2 = Rule_file.load path in
  Sys.remove path;
  check Alcotest.int "cardinality" (List.length rules) (List.length rules2);
  List.iter2
    (fun a b -> check Alcotest.bool (Rule.to_string a) true (Rule.equal a b))
    rules rules2

let () =
  Alcotest.run "xr_refine"
    [
      ( "rules",
        [
          Alcotest.test_case "constructors + scores" `Quick test_rule_constructors;
          Alcotest.test_case "ruleset indexing" `Quick test_ruleset_index;
          Alcotest.test_case "mining on figure 1" `Quick test_mining_fig1;
          Alcotest.test_case "mining config" `Quick test_mining_respects_config;
        ] );
      ( "rule-files",
        [
          Alcotest.test_case "parse" `Quick test_rule_file_parse;
          Alcotest.test_case "errors" `Quick test_rule_file_errors;
          Alcotest.test_case "save/load roundtrip" `Quick test_rule_file_roundtrip;
        ] );
      ( "refined-query",
        [ Alcotest.test_case "delta/deleted/generated" `Quick test_refined_query_delta ] );
      ( "dynamic-program",
        [
          Alcotest.test_case "paper example 3" `Quick test_dp_paper_example3;
          Alcotest.test_case "recurrence options" `Quick test_dp_recurrence_options;
          Alcotest.test_case "deletion cost config" `Quick test_dp_deletion_cost_config;
          Alcotest.test_case "rule needs RHS available" `Quick test_dp_rule_requires_rhs_available;
          Alcotest.test_case "top-k distinct + sorted" `Quick test_dp_top_k_distinct_sorted;
          qcheck prop_dp_optimal;
          qcheck prop_dp_subset_of_t;
        ] );
      ("rq-list", [ Alcotest.test_case "bounded sorted list" `Quick test_rq_list ]);
      ( "algorithms",
        [
          Alcotest.test_case "agree on optimal dissimilarity" `Quick
            test_algorithms_agree_on_optimal_dissim;
          Alcotest.test_case "original query detected" `Quick test_original_query_detected;
          Alcotest.test_case "no fabrication" `Quick test_no_result_when_hopeless;
          Alcotest.test_case "refined queries have results" `Quick
            test_refined_queries_have_results;
          Alcotest.test_case "orthogonal to SLCA engine" `Quick test_orthogonal_to_slca_engine;
          Alcotest.test_case "stack stats" `Quick test_stack_refine_stats;
          Alcotest.test_case "partition stats" `Quick test_partition_prunes;
          Alcotest.test_case "sle stats" `Quick test_sle_early_stop;
          Alcotest.test_case "top-k sorted by rank" `Quick test_topk_sorted_by_rank;
        ] );
      ( "soundness",
        [
          qcheck prop_results_contain_keywords;
          qcheck prop_adaptive_decision_consistent;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "degenerate queries" `Quick test_edge_queries;
          Alcotest.test_case "normalization" `Quick test_mixed_case_and_punctuation_normalize;
          Alcotest.test_case "single-char junk" `Quick test_refine_single_char_keywords;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "decay + variants + weights" `Quick test_ranking_decay_and_variants;
          Alcotest.test_case "dependence score" `Quick test_ranking_dependence;
          Alcotest.test_case "ablations" `Quick test_ranking_ablations_exist;
        ] );
    ]
