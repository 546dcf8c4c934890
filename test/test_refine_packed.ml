(* Reference suite for the refinement algorithms (stack-refine /
   partition / SLE): their outcomes are checked against the paper's
   definitions, computed by the brute-force SLCA oracle and the DP's
   candidate list, on the bundled corpora and on random documents. Also
   property-checks the packed slicing/seeking primitives the scans are
   built on. *)

open Xr_xml
open Xr_refine
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module P = Dewey.Packed
module PC = Xr_index.Cursor.Packed

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- corpora / workloads ------------------------------------------------- *)

let corpora =
  lazy
    [
      ("figure1", Index.build (Xr_data.Figure1.doc ()));
      ("baseball", Index.build (Xr_data.Baseball.doc ()));
      ( "dblp",
        Index.build (Doc.of_tree (Xr_data.Dblp.scaled ~publications:120 ~seed:42)) );
    ]

(* The corpus's keyword names, most frequent first. *)
let by_frequency (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc
  |> List.map (fun (kw, _) -> Doc.keyword_name index.Index.doc kw)

(* Two frequent keyword names of the corpus, used to assemble workloads
   that exercise each rewrite operation with a guaranteed-absent keyword
   so refinement actually runs. *)
let top2 index =
  match by_frequency index with
  | k1 :: k2 :: _ -> (k1, k2)
  | _ -> Alcotest.fail "corpus has fewer than two keywords"

let workloads index =
  let k1, k2 = top2 index in
  [
    ("deletion", [ k1; k2; "zzzdiffjunk" ], []);
    ("merge", [ "zzda"; "zzdb"; k2 ], [ Rule.merging [ "zzda"; "zzdb" ] k1 ]);
    ("split", [ "zzfused" ], [ Rule.split "zzfused" [ k1; k2 ] ]);
    ("substitution", [ "zzsrc"; k2 ], [ Rule.synonym "zzsrc" k1 ]);
    (* original query matches: every algorithm must detect it *)
    ("original", [ k1; k2 ], []);
  ]

let make index rules query = Refine_common.make index (Ruleset.of_rules rules) query

(* name, whether the outcome is a ranked Top-K (Algorithms 2 and 3) or the
   single cheapest refinement (Algorithm 1), and the run *)
let algorithms ~k =
  [
    ("stack-refine", false, fun c -> fst (Stack_refine.run c));
    ("partition", true, fun c -> fst (Partition.run ~k c));
    ("sle", true, fun c -> fst (Sle.run ~k c));
  ]

(* ---- the reference: outcomes against the paper's definitions ------------- *)

(* Every violation of the four oracle properties by [algorithms ~k] on
   setup [c]; [] when all hold. [oracle K] is the meaningful
   definitional SLCA set of keyword set [K]. The candidates are the DP's
   512 cheapest refined queries over the document's keywords (beam 512),
   without the original query ([prop_dp_optimal] in test_refine checks
   the DP itself against exhaustive enumeration). The properties:
   - original outcome: [Original (oracle Q)] iff [oracle Q] is non-empty;
   - result sets: every refined match has [slcas = oracle keywords], and
     that list is non-empty;
   - cheapest refinement: [No_result] iff no candidate has oracle
     results, every match is a candidate, and the cheapest candidate
     with results sets the cheapest match, unless a ranked Top-K
     returned K matches that all rank at or above it;
   - agreement: all algorithms return the same outcome kind. *)
let violations ~k (c : Refine_common.t) =
  let doc = c.index.Index.doc in
  let slcas = Oracle.make doc in
  let oracle keywords =
    Xr_slca.Meaningful.filter c.meaningful (Oracle.slca slcas keywords)
  in
  let q = oracle c.query in
  let candidates =
    Optimal_rq.top_k
      ~config:{ c.dp_config with Optimal_rq.beam = 512 }
      ~rules:c.rules
      ~available:(fun kw -> Doc.keyword_id doc kw <> None)
      ~k:512 c.query
    |> List.filter (fun rq -> not (Refined_query.is_original rq))
  in
  let cheapest =
    lazy (List.find_opt (fun rq -> oracle rq.Refined_query.keywords <> []) candidates)
  in
  let is_candidate (rq : Refined_query.t) =
    List.exists
      (fun (cand : Refined_query.t) ->
        String.equal (Refined_query.key cand) (Refined_query.key rq)
        && cand.dissimilarity = rq.dissimilarity)
      candidates
  in
  let same = List.equal Dewey.equal in
  let check_outcome (name, ranked, outcome) =
    let bad fmt = Printf.ksprintf (fun s -> [ name ^ ": " ^ s ]) fmt in
    match outcome with
    | Result.Original r ->
      if q = [] then bad "Original, but the oracle finds no result for the query"
      else if not (same r q) then bad "Original results differ from the oracle's"
      else []
    | _ when q <> [] -> bad "the query has oracle results, but no Original outcome"
    | Result.No_result -> (
      match Lazy.force cheapest with
      | None -> []
      | Some rq ->
        bad "No_result, but candidate %s has results" (Refined_query.to_string rq))
    | Result.Refined matches -> (
      let per_match (m : Result.rq_match) =
        let rq = m.Result.rq in
        let expected = oracle rq.Refined_query.keywords in
        (if expected = [] then bad "%s has no oracle result" (Refined_query.to_string rq)
         else if not (same m.Result.slcas expected) then
           bad "%s results differ from the oracle's" (Refined_query.to_string rq)
         else [])
        @
        if is_candidate rq then []
        else bad "%s is not a DP candidate" (Refined_query.to_string rq)
      in
      List.concat_map per_match matches
      @
      match (Lazy.force cheapest, matches) with
      | None, _ -> bad "Refined, but no candidate has oracle results"
      | Some _, [] -> bad "Refined with no match"
      | Some best, _ ->
        let min_ds =
          List.fold_left
            (fun a (m : Result.rq_match) -> min a m.Result.rq.Refined_query.dissimilarity)
            max_int matches
        in
        (* A ranked Top-K comes from a pool of the 2K cheapest
           refinements, ordered by the paper's ranking model, which may
           place K dearer ones ahead of the cheapest: only then may the
           cheapest be missing. *)
        let best_rank =
          (Ranking.score c.index.Index.stats ~original:c.query best).Ranking.rank
        in
        let outranked =
          ranked
          && List.length matches = k
          && List.for_all
               (fun (m : Result.rq_match) ->
                 match m.Result.score with
                 | Some s -> s.Ranking.rank >= best_rank
                 | None -> false)
               matches
        in
        if min_ds = best.dissimilarity || outranked then []
        else
          bad "cheapest match costs %d, the cheapest candidate with results, %s, %d"
            min_ds (Refined_query.to_string best) best.dissimilarity)
  in
  let outcomes =
    List.map (fun (name, ranked, run) -> (name, ranked, run c)) (algorithms ~k)
  in
  let kind = function
    | Result.Original _ -> "Original"
    | Result.Refined _ -> "Refined"
    | Result.No_result -> "No_result"
  in
  let agreement =
    match List.sort_uniq String.compare (List.map (fun (_, _, o) -> kind o) outcomes) with
    | [ _ ] -> []
    | kinds -> [ "outcome kinds disagree: " ^ String.concat ", " kinds ]
  in
  List.concat_map check_outcome outcomes @ agreement

(* The 3 corpora x 5 workloads, each with the workload's own rules or
   with those merged into the rules the engine mines for the query. *)
let test_oracle_corpora ~mined () =
  let failures =
    List.concat_map
      (fun (cname, index) ->
        List.concat_map
          (fun (wname, query, rules) ->
            let rules =
              if mined then Engine.compiled_rules ~rules index query else rules
            in
            List.map
              (fun v -> Printf.sprintf "%s/%s: %s" cname wname v)
              (violations ~k:3 (make index rules query)))
          (workloads index))
      (Lazy.force corpora)
  in
  check Alcotest.(list string) "oracle violations" [] failures

(* A KS wider than the 62-bit presence signature: one absent keyword
   with a synonym rule to each of 70 corpus keywords. Every partition
   then runs the DP uncached, asking the walk which keywords it holds. *)
let test_oracle_wide_ks () =
  let index = List.assoc "dblp" (Lazy.force corpora) in
  let k2 = snd (top2 index) in
  let targets =
    List.filteri (fun i _ -> i < 70) (List.filter (( <> ) k2) (by_frequency index))
  in
  let c = make index (List.map (Rule.synonym "zzsrc") targets) [ "zzsrc"; k2 ] in
  check Alcotest.bool "KS exceeds the signature" true (Array.length c.ks > 62);
  check Alcotest.(list string) "oracle violations" [] (violations ~k:3 c)

let prop_oracle_random =
  QCheck.Test.make ~name:"random documents, mined rules" ~count:1500
    Oracle.arb_refine_case
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      match violations ~k:3 (make index (Engine.compiled_rules index query) query) with
      | [] -> true
      | vs -> QCheck.Test.fail_report (String.concat "\n" vs))

(* ---- packed slicing / seeking primitives --------------------------------- *)

let arb_labels_and_probe =
  let label = Oracle.gen_label_sized ~depth:5 ~small:4 in
  QCheck.make
    ~print:(fun (ls, v, lo) ->
      Printf.sprintf "%s probe=%s lo=%d"
        (String.concat " " (List.map Dewey.to_string ls))
        (Dewey.to_string v) lo)
    QCheck.Gen.(triple (Oracle.gen_sorted_labels ~label 30) label (int_bound 5))

let prop_prefix_slice_sub =
  QCheck.Test.make ~name:"prefix_slice_sub = naive prefix scan" ~count:500
    arb_labels_and_probe
    (fun (labels, v, lo) ->
      let arr = Array.of_list labels in
      let pk = P.of_list labels in
      let lo = min lo (Array.length arr) in
      let slo, shi = P.prefix_slice_sub pk ~lo v (Array.length v) in
      (* naive: indices >= lo whose label has [v] as a prefix *)
      let naive =
        List.filteri (fun i _ -> i >= lo) labels
        |> List.mapi (fun i _ -> i) |> List.length |> ignore;
        let idx = ref [] in
        Array.iteri (fun i l -> if i >= lo && Dewey.is_prefix v l then idx := i :: !idx) arr;
        List.rev !idx
      in
      match naive with
      | [] -> slo = shi
      | first :: _ ->
        slo = first && shi = first + List.length naive
        && List.for_all (fun i -> i >= slo && i < shi) naive)

let prop_seek_geq_sub =
  QCheck.Test.make ~name:"cursor seek_geq_sub lands on lower bound" ~count:500
    arb_labels_and_probe
    (fun (labels, v, advance_by) ->
      let pk = P.of_list labels in
      let cur = PC.make pk in
      for _ = 1 to min advance_by (P.length pk) do
        PC.advance cur
      done;
      let start = PC.position cur in
      PC.seek_geq_sub cur v (Array.length v);
      let expected = P.lower_bound_sub pk ~lo:start v (Array.length v) in
      PC.position cur = expected)

(* a cursor restricted to [lo, hi) behaves like the full cursor clamped *)
let prop_sub_cursor =
  QCheck.Test.make ~name:"make_sub clamps seeks to its window" ~count:300
    arb_labels_and_probe
    (fun (labels, v, lo) ->
      let pk = P.of_list labels in
      let n = P.length pk in
      let lo = min lo n in
      let hi = min (lo + 7) n in
      let cur = PC.make_sub pk ~lo ~hi in
      PC.seek_geq_sub cur v (Array.length v);
      let expected = min hi (P.lower_bound_sub pk ~lo v (Array.length v)) in
      PC.position cur = expected && (PC.at_end cur = (PC.position cur >= hi)))

let () =
  Alcotest.run "xr_refine_packed"
    [
      ( "oracle-property",
        [
          Alcotest.test_case "corpora, given rules" `Quick
            (test_oracle_corpora ~mined:false);
          Alcotest.test_case "corpora, mined rules" `Quick
            (test_oracle_corpora ~mined:true);
          Alcotest.test_case "dblp, KS over 62 keywords" `Quick test_oracle_wide_ks;
          qcheck prop_oracle_random;
        ] );
      ( "primitives",
        [ qcheck prop_prefix_slice_sub; qcheck prop_seek_geq_sub; qcheck prop_sub_cursor ]
      );
    ]
