open Xr_xml
module Inverted = Xr_index.Inverted
module Index = Xr_index.Index
module Engine = Xr_slca.Engine
module Search_for = Xr_slca.Search_for
module Meaningful = Xr_slca.Meaningful
module Scan_eager_batch = Xr_slca.Scan_eager

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let fig1 = lazy (Index.build (Xr_data.Figure1.doc ()))

let small_dblp =
  lazy
    (Index.build
       (Xr_data.Dblp.doc ~config:{ Xr_data.Dblp.default_config with publications = 120 } ()))

let baseball = lazy (Index.build (Xr_data.Baseball.doc ()))

let lists_of index keywords =
  List.map
    (fun k ->
      match Doc.keyword_id index.Index.doc k with
      | Some kw -> Inverted.list index.Index.inverted kw
      | None -> [||])
    keywords

(* Reference: the definitional SLCA oracle over the document's nodes. *)
let oracle index keywords = Oracle.slca (Oracle.make index.Index.doc) keywords

let dewey_list = Alcotest.testable (Fmt.Dump.list Dewey.pp) (List.equal Dewey.equal)

let run_all index keywords =
  List.map (fun alg -> (alg, Engine.compute alg (lists_of index keywords))) Engine.all

let assert_all_agree index keywords =
  let expected = oracle index keywords in
  List.iter
    (fun (alg, got) ->
      check dewey_list
        (Printf.sprintf "%s on {%s}" (Engine.name alg) (String.concat "," keywords))
        expected got)
    (run_all index keywords)

(* ---- unit: figure 1 ----------------------------------------------------- *)

let test_fig1_basic () =
  let index = Lazy.force fig1 in
  List.iter (assert_all_agree index)
    [
      [ "xml"; "2003" ];
      [ "xml" ];
      [ "john" ];
      [ "on"; "line" ];
      [ "online"; "database" ];
      [ "john"; "xml"; "2003" ];
      [ "web"; "games" ];
      [ "title"; "year" ];
      [ "author" ];
      [ "bib" ];
      [ "nonexistentkeyword" ];
      [ "xml"; "nonexistentkeyword" ];
    ]

let test_fig1_expected_values () =
  let index = Lazy.force fig1 in
  let got = Engine.query Engine.Stack index [ "xml"; "2003" ] in
  check
    (Alcotest.list Alcotest.string)
    "slca(xml,2003)"
    [ "0.1.1.0"; "0.1.1.1" ]
    (List.map Dewey.to_string got);
  (* scattered keywords meet only at the root *)
  let got = Engine.query Engine.Scan_eager index [ "web"; "games" ] in
  check (Alcotest.list Alcotest.string) "root slca" [ "0" ] (List.map Dewey.to_string got);
  (* duplicate keywords in the query collapse *)
  let got = Engine.query Engine.Multiway index [ "xml"; "XML"; "xml" ] in
  check Alcotest.int "dup keywords" 2 (List.length got)

let test_empty_inputs () =
  check dewey_list "no lists" [] (Engine.compute Engine.Stack []);
  check dewey_list "empty list among inputs" [] (Engine.compute Engine.Scan_eager [ [||] ]);
  let index = Lazy.force fig1 in
  check dewey_list "oov keyword" [] (Engine.query Engine.Indexed_lookup index [ "zzz"; "xml" ])

(* ---- generated corpora: all four engines = brute force ------------------- *)

let sample_keywords rng doc n =
  let vocab = Array.of_list (Doc.vocabulary doc) in
  List.init n (fun _ -> vocab.(Xr_data.Rng.int rng (Array.length vocab)))

let agree_on_corpus index seed runs =
  let rng = Xr_data.Rng.create seed in
  for _ = 1 to runs do
    let n = 1 + Xr_data.Rng.int rng 3 in
    let keywords = List.sort_uniq String.compare (sample_keywords rng index.Index.doc n) in
    assert_all_agree index keywords
  done

let test_agree_dblp () = agree_on_corpus (Lazy.force small_dblp) 31 40

let test_agree_baseball () = agree_on_corpus (Lazy.force baseball) 32 40

(* random tiny documents: stress the stack/anchor logic on odd shapes *)
let arb_doc_query =
  QCheck.make
    ~print:(fun (t, q) -> Xr_xml.Printer.to_string t ^ "\nquery: " ^ String.concat "," q)
    QCheck.Gen.(
      pair Oracle.gen_doc (list_size (int_range 1 3) (oneofl [ "x"; "y"; "z"; "w"; "a"; "b" ])))

let prop_engines_agree =
  QCheck.Test.make ~name:"all engines equal brute force on random docs" ~count:300 arb_doc_query
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let keywords = List.sort_uniq String.compare query in
      let expected = oracle index keywords in
      List.for_all (fun (_, got) -> List.equal Dewey.equal expected got) (run_all index keywords))

(* ---- adversarial shapes: every engine = the oracle ------------------------ *)

(* Keyword-id queries over a document: frequent pairs and triples, rare
   pairs and triples, a frequent/rare mix and single keywords. *)
let query_mix (index : Index.t) =
  let counts = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then counts := (kw, n) :: !counts)
    index.Index.inverted;
  match List.map fst (List.stable_sort (fun (_, a) (_, b) -> Int.compare b a) !counts) with
  | [] -> []
  | kws ->
    let n = List.length kws in
    let at i = List.nth kws (min i (n - 1)) and last i = List.nth kws (max 0 (n - 1 - i)) in
    List.map (List.sort_uniq Int.compare)
      [
        [ at 0; at 1 ];
        [ at 0; at 1; at 2 ];
        [ last 0; last 1 ];
        [ last 0; last 1; last 2 ];
        [ at 0; last 0 ];
        [ at 0 ];
        [ last 1 ];
      ]

(* Every engine, run through [query_ids], against the oracle on the
   query mix of [tree]; one line per disagreement. *)
let oracle_mismatches tree =
  let index = Index.build (Doc.of_tree tree) in
  let reference = Oracle.make index.Index.doc in
  List.concat_map
    (fun ids ->
      let keywords = List.map (Doc.keyword_name index.Index.doc) ids in
      let expected = Oracle.slca reference keywords in
      List.filter_map
        (fun alg ->
          if List.equal Dewey.equal expected (Engine.query_ids alg index ids) then None
          else Some (Printf.sprintf "%s on {%s}" (Engine.name alg) (String.concat "," keywords)))
        Engine.all)
    (query_mix index)

let test_adversarial_shapes () =
  List.iter
    (fun (name, tree) ->
      check Alcotest.(list string) (name ^ " disagreements") [] (oracle_mismatches tree))
    (Oracle.shapes ())

let prop_repetitive_trees =
  QCheck.Test.make ~name:"engines = oracle on random repetitive trees" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      match oracle_mismatches (Oracle.tree_of_seed seed) with
      | [] -> true
      | bad -> QCheck.Test.fail_report (String.concat "\n" bad))

(* Lemma 1: a subset query's SLCA set is non-empty whenever the superset's is *)
let prop_lemma1_monotone =
  QCheck.Test.make ~name:"Lemma 1: subset keeps non-empty results" ~count:200 arb_doc_query
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let keywords = List.sort_uniq String.compare query in
      match keywords with
      | [] | [ _ ] -> true
      | _ :: rest ->
        let super = Engine.compute Engine.Stack (lists_of index keywords) in
        let sub = Engine.compute Engine.Stack (lists_of index rest) in
        super = [] || sub <> [])

(* SLCA results never nest *)
let prop_results_incomparable =
  QCheck.Test.make ~name:"SLCA results are pairwise incomparable" ~count:300 arb_doc_query
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let keywords = List.sort_uniq String.compare query in
      let results = Engine.compute Engine.Multiway (lists_of index keywords) in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Dewey.equal a b || not (Dewey.is_prefix a b || Dewey.is_prefix b a))
            results)
        results)


(* ---- ELCA ------------------------------------------------------------------ *)

(* Reference: v is an ELCA iff every keyword has a witness under v that is
   not covered by a proper descendant of v whose subtree contains all
   keywords. *)
let brute_force_elca index keywords =
  let doc = index.Index.doc in
  let lists = lists_of index keywords in
  if lists = [] || List.exists (fun l -> Array.length l = 0) lists then []
  else begin
    let contains_all dewey =
      List.for_all
        (fun list ->
          Array.exists (fun (p : Inverted.posting) -> Dewey.is_prefix dewey p.Inverted.dewey) list)
        lists
    in
    let all_containers =
      Array.to_list doc.Doc.nodes
      |> List.filter_map (fun (n : Doc.node) ->
             if contains_all n.Doc.dewey then Some n.Doc.dewey else None)
    in
    Array.to_list doc.Doc.nodes
    |> List.filter_map (fun (n : Doc.node) ->
           let v = n.Doc.dewey in
           let ok =
             List.for_all
               (fun list ->
                 Array.exists
                   (fun (p : Inverted.posting) ->
                     Dewey.is_prefix v p.Inverted.dewey
                     && not
                          (List.exists
                             (fun x ->
                               Dewey.depth x > Dewey.depth v
                               && Dewey.is_prefix v x && Dewey.is_prefix x p.Inverted.dewey)
                             all_containers))
                   list)
               lists
           in
           if ok then Some v else None)
  end

let test_elca_fig1 () =
  let index = Lazy.force fig1 in
  List.iter
    (fun keywords ->
      let expected = brute_force_elca index keywords in
      let got = Xr_slca.Elca.compute (lists_of index keywords) in
      check dewey_list (Printf.sprintf "elca {%s}" (String.concat "," keywords)) expected got)
    [
      [ "xml"; "2003" ]; [ "xml" ]; [ "john" ]; [ "title"; "year" ]; [ "author" ];
      [ "web"; "games" ]; [ "online"; "database" ]; [ "missingkw" ];
    ]

let test_elca_superset_of_slca () =
  (* every SLCA is an ELCA *)
  let index = Lazy.force small_dblp in
  let rng = Xr_data.Rng.create 77 in
  for _ = 1 to 25 do
    let n = 1 + Xr_data.Rng.int rng 2 in
    let keywords = List.sort_uniq String.compare (sample_keywords rng index.Index.doc n) in
    let slca = Engine.compute Engine.Stack (lists_of index keywords) in
    let elca = Xr_slca.Elca.compute (lists_of index keywords) in
    List.iter
      (fun s ->
        if not (List.exists (Dewey.equal s) elca) then
          Alcotest.failf "SLCA %s missing from ELCA set for {%s}" (Dewey.to_string s)
            (String.concat "," keywords))
      slca
  done

let prop_elca_brute_force =
  QCheck.Test.make ~name:"ELCA equals brute force on random docs" ~count:300 arb_doc_query
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let keywords = List.sort_uniq String.compare query in
      let expected = brute_force_elca index keywords in
      let got = Xr_slca.Elca.compute (lists_of index keywords) in
      List.equal Dewey.equal expected got)

(* ---- search-for inference ------------------------------------------------ *)

let kw index k =
  match Doc.keyword_id index.Index.doc k with
  | Some id -> id
  | None -> Alcotest.failf "missing keyword %s" k

let test_search_for_fig1 () =
  let index = Lazy.force fig1 in
  let ids = List.map (kw index) [ "john"; "xml"; "2003" ] in
  match Search_for.infer index.Index.stats ids with
  | (best, conf) :: _ ->
    check Alcotest.string "author is the search-for node" "/bib/author"
      (Doc.path_string index.Index.doc best);
    check Alcotest.bool "confidence positive" true (conf > 0.)
  | [] -> Alcotest.fail "no candidate inferred"

let test_search_for_config () =
  let index = Lazy.force fig1 in
  let ids = [ kw index "xml" ] in
  (* root excluded by default *)
  let cands = Search_for.infer index.Index.stats ids in
  check Alcotest.bool "root excluded" true
    (List.for_all (fun (p, _) -> p <> index.Index.doc.Doc.root_path) cands);
  let with_root =
    Search_for.infer
      ~config:
        {
          Search_for.default_config with
          include_root = true;
          threshold = 0.;
          max_candidates = 100;
          min_instances = 1;
        }
      index.Index.stats ids
  in
  check Alcotest.bool "root admitted when configured" true
    (List.exists (fun (p, _) -> p = index.Index.doc.Doc.root_path) with_root);
  (* max_candidates cap *)
  let capped =
    Search_for.infer
      ~config:{ Search_for.default_config with threshold = 0.; max_candidates = 2 }
      index.Index.stats ids
  in
  check Alcotest.bool "cap respected" true (List.length capped <= 2);
  (* empty keyword list -> no candidates *)
  check Alcotest.int "no keywords" 0 (List.length (Search_for.infer index.Index.stats []))

let test_search_for_monotone_confidence () =
  let index = Lazy.force fig1 in
  (* confidence grows when more query keywords hit the subtree *)
  let author =
    let doc = index.Index.doc in
    let found = ref None in
    Path.iter
      (fun p -> if String.equal (Doc.path_string doc p) "/bib/author" then found := Some p)
      doc.Doc.paths;
    Option.get !found
  in
  let c1 = Search_for.confidence index.Index.stats [ kw index "xml" ] author in
  let c2 = Search_for.confidence index.Index.stats [ kw index "xml"; kw index "john" ] author in
  check Alcotest.bool "more hits, more confidence" true (c2 > c1)

(* ---- meaningful SLCA ------------------------------------------------------ *)

let test_meaningful_fig1 () =
  let index = Lazy.force fig1 in
  let ids = List.map (kw index) [ "john"; "xml"; "2003" ] in
  let ctx = Meaningful.make index.Index.stats ids in
  (* the root-only SLCA of {john,xml,2003} is not meaningful *)
  let slcas = Engine.query Engine.Stack index [ "john"; "xml"; "2003" ] in
  check (Alcotest.list Alcotest.string) "root is the slca" [ "0" ] (List.map Dewey.to_string slcas);
  check dewey_list "root filtered out" [] (Meaningful.filter ctx slcas);
  (* inproceedings results of {xml,2003} are meaningful (under author) *)
  let slcas2 = Engine.query Engine.Stack index [ "xml"; "2003" ] in
  check Alcotest.int "inproceedings kept" 2 (List.length (Meaningful.filter ctx slcas2));
  (* downward closure: a node deeper than a meaningful node is meaningful *)
  check Alcotest.bool "descendant meaningful" true
    (Meaningful.is_meaningful_dewey ctx (Dewey.of_string "0.1.1.0.0"));
  check Alcotest.bool "unknown dewey" false
    (Meaningful.is_meaningful_dewey ctx (Dewey.of_string "0.9.9"))

let test_needs_refinement_definition () =
  let index = Lazy.force fig1 in
  (* Definition 3.4 via the composed pipeline *)
  let ids = List.map (kw index) [ "xml"; "2003" ] in
  let ctx = Meaningful.make index.Index.stats ids in
  let res =
    Meaningful.filter ctx
      (Engine.compute Engine.Scan_eager (lists_of index [ "xml"; "2003" ]))
  in
  check Alcotest.bool "query with meaningful results" true (res <> [])

(* ---- interconnection (XSEarch) ----------------------------------------------- *)

let test_interconnection_relation () =
  let index = Lazy.force fig1 in
  let doc = index.Index.doc in
  let d = Dewey.of_string in
  (* within one author: name and a title are interconnected *)
  check Alcotest.bool "same author" true
    (Xr_slca.Interconnection.related doc (d "0.0.0") (d "0.0.1.0.0"));
  (* across two authors: the path passes through two <author> nodes *)
  check Alcotest.bool "different authors" false
    (Xr_slca.Interconnection.related doc (d "0.0.0") (d "0.1.0"));
  (* ancestor/descendant always related *)
  check Alcotest.bool "ancestor" true
    (Xr_slca.Interconnection.related doc (d "0.0") (d "0.0.1.0.0"));
  check Alcotest.bool "self" true (Xr_slca.Interconnection.related doc (d "0.0") (d "0.0"));
  (* two inproceedings of the SAME author still pass through two
     <inproceedings> nodes -> not interconnected *)
  check Alcotest.bool "two inproceedings" false
    (Xr_slca.Interconnection.related doc (d "0.0.1.0.0") (d "0.0.1.1.0"));
  check Alcotest.bool "unknown label" false
    (Xr_slca.Interconnection.related doc (d "0.9") (d "0.0"))

let test_interconnection_filter () =
  let index = Lazy.force fig1 in
  (* {xml, 2003}: witnesses inside one inproceedings -> interconnected *)
  let slcas = Engine.query Engine.Stack index [ "xml"; "2003" ] in
  check Alcotest.int "kept" 2
    (List.length (Xr_slca.Interconnection.filter index [ "xml"; "2003" ] slcas));
  (* {web, games}: only common ancestor is the root, witnesses live under
     two different <author> nodes -> filtered out *)
  let slcas = Engine.query Engine.Stack index [ "web"; "games" ] in
  check Alcotest.int "root-spanning filtered" 0
    (List.length (Xr_slca.Interconnection.filter index [ "web"; "games" ] slcas))

let test_witness_choice () =
  let index = Lazy.force fig1 in
  let doc = index.Index.doc in
  let d = Dewey.of_string in
  (* a valid choice exists *)
  (match
     Xr_slca.Interconnection.witness_choice doc
       ~per_keyword:[ [ d "0.0.0" ]; [ d "0.0.1.0.0"; d "0.1.0" ] ]
   with
  | Some [ a; b ] ->
    check Alcotest.bool "chose the interconnected pair" true
      (Dewey.equal a (d "0.0.0") && Dewey.equal b (d "0.0.1.0.0"))
  | _ -> Alcotest.fail "expected a choice");
  (* impossible: both candidates cross authors *)
  check Alcotest.bool "no choice" true
    (Xr_slca.Interconnection.witness_choice doc
       ~per_keyword:[ [ d "0.0.0" ]; [ d "0.1.0" ] ]
    = None);
  check Alcotest.bool "empty keyword list" true
    (Xr_slca.Interconnection.witness_choice doc ~per_keyword:[ [ d "0.0.0" ]; [] ] = None)

(* ---- streaming ----------------------------------------------------------------- *)

let test_stream_equals_batch () =
  let indexes = [ Lazy.force fig1; Lazy.force small_dblp; Lazy.force baseball ] in
  let rng = Xr_data.Rng.create 808 in
  List.iter
    (fun index ->
      for _ = 1 to 15 do
        let n = 1 + Xr_data.Rng.int rng 3 in
        let keywords = List.sort_uniq String.compare (sample_keywords rng index.Index.doc n) in
        let lists = lists_of index keywords in
        let batch = Scan_eager_batch.compute lists in
        let streamed = ref [] in
        Xr_slca.Stream.iter lists (fun d ->
            streamed := d :: !streamed;
            true);
        check dewey_list
          (Printf.sprintf "stream = batch on {%s}" (String.concat "," keywords))
          batch (List.rev !streamed)
      done)
    indexes

and _module_alias_hack = ()

let test_stream_early_stop () =
  let index = Lazy.force small_dblp in
  (* a keyword present in every publication: plenty of results *)
  let lists = lists_of index [ "author" ] in
  let all = Scan_eager_batch.compute lists in
  if List.length all > 3 then begin
    let firsts = Xr_slca.Stream.first_n lists 3 in
    check Alcotest.int "exactly n" 3 (List.length firsts);
    check dewey_list "prefix of the batch" (List.filteri (fun i _ -> i < 3) all) firsts
  end

let prop_stream_equals_batch =
  QCheck.Test.make ~name:"stream SLCA = batch SLCA on random docs" ~count:300 arb_doc_query
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let keywords = List.sort_uniq String.compare query in
      let lists = lists_of index keywords in
      let batch = Scan_eager_batch.compute lists in
      let streamed = ref [] in
      Xr_slca.Stream.iter lists (fun d ->
          streamed := d :: !streamed;
          true);
      List.equal Dewey.equal batch (List.rev !streamed))

(* ---- snippets --------------------------------------------------------------- *)

let test_snippets () =
  let index = Lazy.force fig1 in
  let doc = index.Index.doc in
  let ids = List.map (kw index) [ "xml"; "2003" ] in
  let s = Xr_slca.Snippet.of_result doc ~query:ids (Dewey.of_string "0.1.1.0") in
  check Alcotest.bool "mentions the matching field" true
    (String.length s > 0 && String.sub s 0 5 = "title");
  check Alcotest.bool "highlights xml" true
    (let rec contains i =
       i + 5 <= String.length s && (String.sub s i 5 = "[xml]" || contains (i + 1))
     in
     contains 0);
  (* fallback: no matching keyword still yields some text *)
  let none = Xr_slca.Snippet.of_result doc ~query:[] (Dewey.of_string "0.1.1.0") in
  check Alcotest.bool "fallback text" true (String.length none > 0);
  check Alcotest.string "unknown label" "" (Xr_slca.Snippet.of_result doc ~query:ids (Dewey.of_string "0.9"))

let () =
  Alcotest.run "xr_slca"
    [
      ( "engines",
        [
          Alcotest.test_case "figure 1 agreement" `Quick test_fig1_basic;
          Alcotest.test_case "figure 1 expected values" `Quick test_fig1_expected_values;
          Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
          Alcotest.test_case "agreement on dblp" `Quick test_agree_dblp;
          Alcotest.test_case "agreement on baseball" `Quick test_agree_baseball;
          qcheck prop_engines_agree;
          Alcotest.test_case "adversarial shapes = oracle" `Quick test_adversarial_shapes;
          qcheck prop_repetitive_trees;
          qcheck prop_lemma1_monotone;
          qcheck prop_results_incomparable;
        ] );
      ( "elca",
        [
          Alcotest.test_case "figure 1 vs brute force" `Quick test_elca_fig1;
          Alcotest.test_case "contains every SLCA" `Quick test_elca_superset_of_slca;
          qcheck prop_elca_brute_force;
        ] );
      ( "search-for",
        [
          Alcotest.test_case "figure 1 inference" `Quick test_search_for_fig1;
          Alcotest.test_case "configuration" `Quick test_search_for_config;
          Alcotest.test_case "confidence monotone" `Quick test_search_for_monotone_confidence;
        ] );
      ( "interconnection",
        [
          Alcotest.test_case "relation" `Quick test_interconnection_relation;
          Alcotest.test_case "filter" `Quick test_interconnection_filter;
          Alcotest.test_case "witness choice" `Quick test_witness_choice;
        ] );
      ( "stream",
        [
          Alcotest.test_case "stream = batch" `Quick test_stream_equals_batch;
          Alcotest.test_case "early stop" `Quick test_stream_early_stop;
          qcheck prop_stream_equals_batch;
        ] );
      ( "snippet", [ Alcotest.test_case "highlighted fragments" `Quick test_snippets ] );
      ( "meaningful",
        [
          Alcotest.test_case "figure 1 filtering" `Quick test_meaningful_fig1;
          Alcotest.test_case "definition 3.4" `Quick test_needs_refinement_definition;
        ] );
    ]
