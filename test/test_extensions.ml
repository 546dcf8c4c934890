(* Tests for the extensions beyond the paper's core: query specialization
   (the paper's future work) and XML TF*IDF result ranking (its companion
   work, reference [6]). *)

open Xr_xml
module Index = Xr_index.Index
module Engine = Xr_refine.Engine
module Specialize = Xr_refine.Specialize
module Result_rank = Xr_slca.Result_rank

let check = Alcotest.check

let fig1 = lazy (Index.build (Xr_data.Figure1.doc ()))

let dblp =
  lazy
    (Index.build
       (Xr_data.Dblp.doc ~config:{ Xr_data.Dblp.default_config with publications = 600 } ()))

(* ---- specialization -------------------------------------------------------- *)

let test_too_broad () =
  let index = Lazy.force dblp in
  let config = { Specialize.default_config with max_results = 10 } in
  (* "data" matches hundreds of publications *)
  check Alcotest.bool "broad query detected" true (Specialize.too_broad ~config index [ "data" ]);
  (* an empty-result query is not "too broad" *)
  check Alcotest.bool "empty not broad" false (Specialize.too_broad ~config index [ "zzzz" ]);
  (* a specific query is fine *)
  let narrow = { config with max_results = 100000 } in
  check Alcotest.bool "specific query ok" false (Specialize.too_broad ~config:narrow index [ "data" ])

let test_suggestions_narrow () =
  let index = Lazy.force dblp in
  let original = List.length (Engine.search index [ "data" ]) in
  check Alcotest.bool "broad baseline" true (original > 50);
  let suggestions = Specialize.suggest index [ "data" ] in
  check Alcotest.bool "suggestions produced" true (suggestions <> []);
  List.iter
    (fun (s : Specialize.suggestion) ->
      let n = List.length s.Specialize.slcas in
      check Alcotest.bool "non-empty" true (n > 0);
      check Alcotest.bool "strictly narrower" true (n < original);
      check Alcotest.bool "query extended" true (List.mem s.Specialize.added s.Specialize.keywords);
      check Alcotest.bool "original keyword kept" true (List.mem "data" s.Specialize.keywords);
      (* suggested results really match the specialized query *)
      let expected = Engine.search index s.Specialize.keywords in
      check Alcotest.int "results consistent" (List.length expected) n)
    suggestions;
  (* scores descend *)
  let scores = List.map (fun s -> s.Specialize.score) suggestions in
  check Alcotest.bool "sorted by score" true
    (scores = List.sort (fun a b -> Float.compare b a) scores)

let test_suggest_empty_query () =
  let index = Lazy.force dblp in
  check Alcotest.int "no suggestions for empty-result query" 0
    (List.length (Specialize.suggest index [ "qqqq" ]))

let test_auto_pipeline () =
  let index = Lazy.force dblp in
  let specialize = { Specialize.default_config with max_results = 10 } in
  (match Engine.auto ~specialize index [ "data" ] with
  | Engine.Narrowed (results, suggestions) ->
    check Alcotest.bool "narrowed has original results" true (List.length results > 10);
    check Alcotest.bool "narrowed has suggestions" true (suggestions <> [])
  | Engine.Matched _ | Engine.Auto_refined _ -> Alcotest.fail "expected Narrowed");
  (match Engine.auto ~specialize index [ "databse"; "optimzation" ] with
  | Engine.Auto_refined resp -> (
    match resp.Engine.result with
    | Xr_refine.Result.Refined (_ :: _) -> ()
    | _ -> Alcotest.fail "expected refinement matches")
  | Engine.Matched _ | Engine.Narrowed _ -> Alcotest.fail "expected Auto_refined");
  let specialize_loose = { Specialize.default_config with max_results = 1000000 } in
  match Engine.auto ~specialize:specialize_loose index [ "data" ] with
  | Engine.Matched results -> check Alcotest.bool "matched non-empty" true (results <> [])
  | Engine.Auto_refined _ | Engine.Narrowed _ -> Alcotest.fail "expected Matched"

let test_suggestions_contain_original_keywords () =
  let index = Lazy.force dblp in
  let doc = index.Index.doc in
  List.iter
    (fun q ->
      List.iter
        (fun (s : Specialize.suggestion) ->
          let ids = List.filter_map (Doc.keyword_id doc) q in
          List.iter
            (fun dewey ->
              let lo, hi = Doc.subtree_node_range doc dewey in
              List.iter
                (fun kw ->
                  let rec found i =
                    i < hi
                    && (List.exists (fun (k, _) -> k = kw) doc.Doc.nodes.(i).Doc.keywords
                       || found (i + 1))
                  in
                  if not (found lo) then
                    Alcotest.failf "specialized result misses original keyword")
                ids)
            s.Specialize.slcas)
        (Specialize.suggest index q))
    [ [ "data" ]; [ "query" ]; [ "system"; "model" ] ]

(* The SLCA step is pluggable (Lemma 3): every engine, packed or
   list-based, must yield the very same suggestions. *)
let test_specialize_orthogonal_to_engine () =
  let corpora =
    [
      ("figure1", Lazy.force fig1);
      ("baseball", Index.build (Xr_data.Baseball.doc ()));
      ( "dblp",
        Index.build
          (Xr_data.Dblp.doc
             ~config:{ Xr_data.Dblp.default_config with publications = 120 }
             ()) );
    ]
  in
  List.iter
    (fun (name, index) ->
      let lengths = ref [] in
      Xr_index.Inverted.iter_lengths
        (fun kw n -> lengths := (n, kw) :: !lengths)
        index.Index.inverted;
      let frequent =
        List.sort (fun a b -> compare b a) !lengths
        |> List.filteri (fun i _ -> i < 3)
        |> List.map (fun (_, kw) -> Doc.keyword_name index.Index.doc kw)
      in
      let queries =
        List.map (fun k -> [ k ]) frequent @ [ List.filteri (fun i _ -> i < 2) frequent ]
      in
      let suggest slca q =
        Specialize.suggest ~config:{ Specialize.default_config with slca } index q
      in
      let suggested = ref false in
      List.iter
        (fun q ->
          let reference = suggest Xr_slca.Engine.Scan_packed q in
          if reference <> [] then suggested := true;
          List.iter
            (fun alg ->
              check Alcotest.bool
                (Printf.sprintf "%s {%s}: %s = scan-packed" name (String.concat " " q)
                   (Xr_slca.Engine.name alg))
                true
                (suggest alg q = reference))
            Xr_slca.Engine.all)
        queries;
      check Alcotest.bool (name ^ ": some query has suggestions") true !suggested)
    corpora

(* ---- result ranking ---------------------------------------------------------- *)

let kw index k =
  match Doc.keyword_id index.Index.doc k with
  | Some id -> id
  | None -> Alcotest.failf "missing keyword %s" k

let test_result_rank_orders_by_occurrences () =
  (* two results of the same type; one contains the query terms twice *)
  let doc =
    Doc.of_string
      "<lib><book><t>xml query</t></book><book><t>xml query xml query xml</t></book><book><t>other \
       words</t></book></lib>"
  in
  let index = Index.build doc in
  let query = [ kw index "xml"; kw index "query" ] in
  let b0 = Dewey.of_string "0.0" and b1 = Dewey.of_string "0.1" in
  let s0 = Result_rank.score index.Index.stats ~query b0 in
  let s1 = Result_rank.score index.Index.stats ~query b1 in
  check Alcotest.bool "more occurrences rank higher" true (s1 > s0);
  check Alcotest.bool "positive scores" true (s0 > 0.);
  let ranked = Result_rank.rank index.Index.stats ~query [ b0; b1 ] in
  check Alcotest.string "best first" "0.1" (Dewey.to_string (fst (List.hd ranked)))

let test_result_rank_unknown_and_ties () =
  let index = Lazy.force fig1 in
  let query = [ kw index "xml" ] in
  check (Alcotest.float 1e-9) "unknown label scores 0" 0.
    (Result_rank.score index.Index.stats ~query (Dewey.of_string "0.9.9"));
  (* stable ties fall back to document order *)
  let a = Dewey.of_string "0.1.1.0" and b = Dewey.of_string "0.1.1.1" in
  let ranked = Result_rank.rank index.Index.stats ~query [ b; a ] in
  check Alcotest.int "both kept" 2 (List.length ranked)

let test_result_rank_on_real_query () =
  let index = Lazy.force dblp in
  let q = [ "data"; "analysis" ] in
  let slcas = Engine.search index q in
  if slcas <> [] then begin
    let ids = List.filter_map (Doc.keyword_id index.Index.doc) q in
    let ranked = Result_rank.rank index.Index.stats ~query:ids slcas in
    check Alcotest.int "rank preserves cardinality" (List.length slcas) (List.length ranked);
    let scores = List.map snd ranked in
    check Alcotest.bool "descending" true
      (scores = List.sort (fun a b -> Float.compare b a) scores)
  end

let test_engine_rank_results () =
  let index = Lazy.force dblp in
  let q = [ "data"; "analysis" ] in
  let plain = Engine.refine index q in
  let config = { Engine.default_config with rank_results = true } in
  let ranked = Engine.refine ~config index q in
  match (plain.Engine.result, ranked.Engine.result) with
  | Xr_refine.Result.Original a, Xr_refine.Result.Original b ->
    check Alcotest.int "same cardinality" (List.length a) (List.length b);
    check
      (Alcotest.list Alcotest.string)
      "same set"
      (List.sort compare (List.map Dewey.to_string a))
      (List.sort compare (List.map Dewey.to_string b));
    (* the ranked order follows Result_rank *)
    let ids = List.filter_map (Doc.keyword_id index.Index.doc) q in
    let expected = List.map fst (Result_rank.rank index.Index.stats ~query:ids a) in
    check
      (Alcotest.list Alcotest.string)
      "relevance order"
      (List.map Dewey.to_string expected)
      (List.map Dewey.to_string b)
  | _ -> Alcotest.fail "expected Original outcomes"

(* ---- baselines ----------------------------------------------------------------- *)

let test_static_clean () =
  let index = Lazy.force dblp in
  let doc = index.Index.doc in
  (* cleaning rewrites into vocabulary words *)
  (match Xr_refine.Static_clean.clean ~k:2 index [ "databse"; "optimzation" ] with
  | rq :: _ as all ->
    List.iter
      (fun (r : Xr_refine.Refined_query.t) ->
        List.iter
          (fun k ->
            if Doc.keyword_id doc k = None then Alcotest.failf "cleaned keyword %s not in vocab" k)
          r.Xr_refine.Refined_query.keywords)
      all;
    check Alcotest.bool "plausible top-1" true
      (List.mem "database" rq.Xr_refine.Refined_query.keywords)
  | [] -> Alcotest.fail "no cleaning produced");
  (* the failure mode the paper criticizes: a cleaned query with no
     meaningful result. Construct one from two keywords that exist but
     never co-occur meaningfully. *)
  let vocab = Doc.vocabulary doc in
  let never_together =
    (* find two rare keywords with no common meaningful SLCA *)
    let rare =
      List.filter
        (fun k ->
          match Doc.keyword_id doc k with
          | Some kw -> Array.length (Xr_index.Inverted.list index.Index.inverted kw) = 1
          | None -> false)
        vocab
    in
    let rec find = function
      | a :: (b :: _ as rest) ->
        if Engine.search index [ a; b ] = [] then Some (a, b) else find rest
      | _ -> None
    in
    find rare
  in
  match never_together with
  | None -> () (* corpus too small to exhibit it; nothing to assert *)
  | Some (a, b) ->
    let rq =
      { Xr_refine.Refined_query.keywords = [ a; b ]; dissimilarity = 1; edits = [] }
    in
    check Alcotest.bool "stranded detection" true (Xr_refine.Static_clean.stranded index rq)

let test_or_search () =
  let index = Lazy.force fig1 in
  (* {xml, games}: no conjunctive match below the root, but OR finds both *)
  let hits = Xr_slca.Or_search.query index [ "xml"; "games" ] in
  check Alcotest.bool "hits found" true (hits <> []);
  let scores = List.map (fun (h : Xr_slca.Or_search.hit) -> h.Xr_slca.Or_search.score) hits in
  check Alcotest.bool "sorted" true (scores = List.sort (fun a b -> compare b a) scores);
  (* matched counts are within range and the best hit matches >= others *)
  List.iter
    (fun (h : Xr_slca.Or_search.hit) ->
      if h.Xr_slca.Or_search.matched < 1 || h.Xr_slca.Or_search.matched > 2 then
        Alcotest.fail "matched out of range")
    hits;
  (* OOV-only query yields nothing *)
  check Alcotest.int "oov" 0 (List.length (Xr_slca.Or_search.query index [ "zzzz" ]));
  (* limit respected *)
  check Alcotest.bool "limit" true
    (List.length (Xr_slca.Or_search.query ~limit:2 index [ "xml"; "games" ]) <= 2)

let test_or_search_prefers_conjunction () =
  (* a node covering both keywords outranks nodes covering one *)
  let doc =
    Xr_xml.Doc.of_string
      "<r><a><x>alpha</x><y>beta</y></a><b><x>alpha</x></b><c><y>beta</y></c></r>"
  in
  let index = Index.build doc in
  match Xr_slca.Or_search.query index [ "alpha"; "beta" ] with
  | best :: _ ->
    check Alcotest.int "conjunctive node first" 2 best.Xr_slca.Or_search.matched;
    check Alcotest.string "it is the <a> subtree" "0.0"
      (Dewey.to_string best.Xr_slca.Or_search.dewey)
  | [] -> Alcotest.fail "no hits"

let () =
  Alcotest.run "extensions"
    [
      ( "specialize",
        [
          Alcotest.test_case "too_broad detection" `Quick test_too_broad;
          Alcotest.test_case "suggestions narrow the query" `Quick test_suggestions_narrow;
          Alcotest.test_case "empty-result query" `Quick test_suggest_empty_query;
          Alcotest.test_case "auto pipeline" `Quick test_auto_pipeline;
          Alcotest.test_case "suggestions keep original keywords" `Quick
            test_suggestions_contain_original_keywords;
          Alcotest.test_case "orthogonal to SLCA engine" `Quick
            test_specialize_orthogonal_to_engine;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "static cleaning" `Quick test_static_clean;
          Alcotest.test_case "or search" `Quick test_or_search;
          Alcotest.test_case "or prefers conjunction" `Quick test_or_search_prefers_conjunction;
        ] );
      ( "result-rank",
        [
          Alcotest.test_case "engine rank_results option" `Quick test_engine_rank_results;
          Alcotest.test_case "orders by occurrences" `Quick test_result_rank_orders_by_occurrences;
          Alcotest.test_case "unknown labels and ties" `Quick test_result_rank_unknown_and_ties;
          Alcotest.test_case "real query" `Quick test_result_rank_on_real_query;
        ] );
    ]
